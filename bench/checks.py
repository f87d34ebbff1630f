"""Correctness checks for the benchmark, computed apart from the program.

Everything here reads plain data: the atoms and bonds of a graph, a
checkpoint document, and numbers the program returned. It uses numpy only
and never calls into ``ginigcn``, so a fault in the program cannot hide in
the reference it is checked against. Each ``check_*`` function returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
MASS_FRACTION = 0.9

# Feature layout documented in ginigcn.molecules.featurize: element one-hot
# over (H, C, N, O, F), heavy-atom degree one-hot 0-4, aromatic flag,
# implicit hydrogen count one-hot 0-4.
_ELEMENTS = ("H", "C", "N", "O", "F")
_FEATURES = 16


def degrees(graph) -> np.ndarray:
    """Heavy-atom degree of every atom, counted from the bond list."""
    deg = np.zeros(len(graph.atoms), dtype=np.int64)
    for i, j, _ in graph.bonds:
        deg[i] += 1
        deg[j] += 1
    return deg


def count_targets(graph) -> dict[str, float]:
    """The three planted count targets, from atom elements and bond degrees."""
    return {
        "oxygen_count": float(sum(a.element == "O" for a in graph.atoms)),
        "size": float(len(graph.atoms)),
        "branch_count": float((degrees(graph) >= 3).sum()),
    }


def features(graph) -> np.ndarray:
    deg = degrees(graph)
    x = np.zeros((len(graph.atoms), _FEATURES))
    for k, atom in enumerate(graph.atoms):
        x[k, _ELEMENTS.index(atom.element)] = 1.0
        x[k, 5 + deg[k]] = 1.0
        x[k, 10] = 1.0 if atom.aromatic else 0.0
        x[k, 11 + atom.implicit_hydrogens] = 1.0
    return x


class ReferenceModel:
    """Plain per-molecule forward pass of an explainable checkpoint document.

    Each convolution adds every atom's neighbour rows to its own row through
    the bond list, applies the affine map, batch norm with the running
    statistics, and ReLU; the fingerprint is tanh of the per-channel mean and
    max over atoms, followed by the output layer.
    """

    def __init__(self, doc: dict):
        if doc["config"]["variant"] != "explainable":
            raise ValueError("the reference forward covers the explainable variant only")
        params = {
            name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in doc["parameters"].items()
        }
        self.hidden = int(doc["config"]["conv_hidden"])
        self.targets = list(doc["config"]["targets"])
        self.layers = []
        for ell in range(int(doc["config"]["num_conv_layers"])):
            bn = doc["batch_norm"][f"conv{ell}"]
            scale = params[f"conv{ell}.gamma"] / np.sqrt(
                np.asarray(bn["running_var"]) + float(bn["epsilon"]))
            self.layers.append((
                params[f"conv{ell}.weight"],
                params[f"conv{ell}.bias"],
                np.asarray(bn["running_mean"]),
                scale,
                params[f"conv{ell}.beta"],
            ))
        self.out_weight = params["output.weight"]
        self.out_bias = params["output.bias"]

    def node_reps(self, graph) -> np.ndarray:
        """Last-convolution atom representations, (atoms, hidden)."""
        x = features(graph)
        src = np.array([i for i, _, _ in graph.bonds], dtype=np.intp)
        dst = np.array([j for _, j, _ in graph.bonds], dtype=np.intp)
        for weight, bias, mean, scale, beta in self.layers:
            agg = x.copy()
            np.add.at(agg, src, x[dst])
            np.add.at(agg, dst, x[src])
            x = np.maximum((agg @ weight + bias - mean) * scale + beta, 0.0)
        return x

    def predict(self, reps: np.ndarray) -> np.ndarray:
        """Prediction row (targets,) from one molecule's node reps."""
        fp = np.concatenate([np.tanh(reps.mean(axis=0)), np.tanh(reps.max(axis=0))])
        return fp @ self.out_weight + self.out_bias


def gini_double_sum(values) -> float:
    """Gini coefficient of |values| by its O(n^2) definition."""
    a = np.abs(np.asarray(values, dtype=np.float64).ravel())
    n = a.size
    return float(np.abs(a[:, None] - a[None, :]).sum() / (2.0 * n * n * a.mean()))


def block_ginis(out_weight, hidden: int) -> tuple[float, float]:
    """Ginis of the mean-block rows [0, H) and the max-block rows [H, 2H)."""
    w = np.asarray(out_weight)
    return gini_double_sum(w[:hidden]), gini_double_sum(w[hidden:2 * hidden])


def check_predictions(pred, ref, tol: float = TOL) -> list[str]:
    """Every prediction within tol of the reference forward."""
    pred = np.asarray(pred)
    ref = np.asarray(ref)
    if pred.shape != ref.shape:
        return [f"prediction shape {pred.shape} differs from reference {ref.shape}"]
    err = np.abs(pred - ref)
    worst = np.unravel_index(int(np.argmax(err)), err.shape)
    if not err[worst] <= tol:
        return [f"prediction {worst} is {pred[worst]!r}, reference {ref[worst]!r} "
                f"(|diff| {err[worst]:.3g} > {tol:g})"]
    return []


def reference_atom_split(reps: np.ndarray, w: np.ndarray):
    """Mean-block atom shares, max-block terms, and their tie sets.

    Atom k receives w_i * tanh(m_i) * x_ki / (n * m_i) of each mean-block
    term, nothing when m_i = 0. Max-block term w_i * tanh(max_i) goes to the
    atom attaining the maximum; ``ties[i]`` lists every atom within rounding
    of it, since the program and this reference may order the neighbour sums
    differently and so split an exact tie either way.
    """
    n, h = reps.shape
    mean = reps.mean(axis=0)
    share = np.divide(reps, n * mean, out=np.zeros_like(reps), where=mean > 0)
    mean_part = share @ (w[:h] * np.tanh(mean))
    top = reps.max(axis=0)
    max_terms = w[h:] * np.tanh(top)
    ties = [np.flatnonzero(reps[:, i] >= top[i] - 1e-12 * max(1.0, top[i])) for i in range(h)]
    return mean_part, max_terms, ties


def check_atom_scores(scores, reps: np.ndarray, w: np.ndarray, tol: float = TOL) -> list[str]:
    """Atom scores equal the reference map, up to the owner of a tied maximum."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (reps.shape[0],):
        return [f"{scores.size} atom scores for {reps.shape[0]} atoms"]
    mean_part, max_terms, ties = reference_atom_split(reps, w)
    residual = scores - mean_part
    tied = np.zeros(reps.shape[0], dtype=bool)
    tied_total = 0.0
    for i, owners in enumerate(ties):
        if owners.size == 1:
            residual[owners[0]] -= max_terms[i]
        else:
            tied[owners] = True
            tied_total += max_terms[i]
    problems = []
    off = np.abs(np.where(tied, 0.0, residual))
    if off.size and not off.max() <= tol:
        k = int(np.argmax(off))
        problems.append(f"atom {k} score {scores[k]!r} is off the reference map by {off[k]:.3g}")
    if tied.any() and not abs(residual[tied].sum() - tied_total) <= tol:
        problems.append("atoms with tied maxima do not share the tied max-block terms")
    return problems


def check_explanation(prediction: float, bias: float, term_values, scores, top,
                      ref_pred: float, reps: np.ndarray, w: np.ndarray,
                      tol: float = TOL) -> list[str]:
    """One per-atom map and its top representations against the reference.

    ``w`` is the target's output-weight column from the checkpoint document.
    """
    problems = []
    if not abs(sum(scores) - (prediction - bias)) <= tol:
        problems.append(f"atom scores sum to {sum(scores)!r}, prediction - bias is "
                        f"{prediction - bias!r}")
    if not abs(sum(term_values) + bias - prediction) <= tol:
        problems.append(f"terms + bias give {sum(term_values) + bias!r}, "
                        f"prediction is {prediction!r}")
    if not abs(prediction - ref_pred) <= tol:
        problems.append(f"prediction {prediction!r}, reference {ref_pred!r}")
    problems += check_atom_scores(scores, reps, w, tol)
    mags = np.abs(w)
    idx = np.asarray(top, dtype=np.intp)
    if idx.size != np.unique(idx).size or not mags[idx].sum() >= MASS_FRACTION * mags.sum():
        problems.append(f"top representations {list(top)} do not hold "
                        f"{MASS_FRACTION:.0%} of the |w| mass")
    return problems


def check_history(raw, reg, g_mean, g_max, m: float, tol: float = TOL) -> list[str]:
    """raw_loss / sqrt(g_mean * g_max)^m = reg_loss on every logged row."""
    problems = []
    for e, (r, q, a, b) in enumerate(zip(raw, reg, g_mean, g_max), start=1):
        expected = r / np.sqrt(a * b) ** m
        if not abs(expected - q) <= tol * max(1.0, abs(q)):
            problems.append(f"history row {e}: raw / g_eff^m = {expected!r}, "
                            f"reg_loss = {q!r}")
    return problems


def check_finite(named_values) -> list[str]:
    return [f"parameter {name} is not finite" for name, v in named_values
            if not np.all(np.isfinite(v))]


def check_gini_growth(w_initial, w_final, hidden: int) -> list[str]:
    """Both block Ginis of the trained output weights exceed the initial ones."""
    problems = []
    for block, before, after in zip(("mean", "max"), block_ginis(w_initial, hidden),
                                    block_ginis(w_final, hidden)):
        if not after > before:
            problems.append(f"{block}-block Gini fell in training: {before:.6f} -> {after:.6f}")
    return problems


def mae_by_target(pred, truth, names) -> dict[str, float]:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    return {name: float(np.abs(pred[:, c] - truth[:, c]).mean()) for c, name in enumerate(names)}


def check_mae_matches(reported: dict, own: dict, tol: float = TOL) -> list[str]:
    """The program's MAE per target equals the one computed here."""
    return [f"reported MAE for {name} is {reported.get(name)!r}, computed {own[name]!r}"
            for name in own
            if name not in reported or not abs(reported[name] - own[name]) <= tol]


def check_beats_mean(model_mae: dict, heldout_truth, train_truth, names,
                     which=("oxygen_count", "branch_count")) -> list[str]:
    """Held-out MAE below that of predicting the training mean."""
    baseline = mae_by_target(
        np.broadcast_to(np.asarray(train_truth).mean(axis=0), np.shape(heldout_truth)),
        heldout_truth, names)
    return [f"held-out MAE for {name} is {model_mae[name]:.4f}, the training mean "
            f"gives {baseline[name]:.4f}"
            for name in which if not model_mae[name] < baseline[name]]
