"""Shared test helpers: packed full-model loss for finite-difference checks."""

import numpy as np

from ginigcn import autodiff as ad
from ginigcn.gini import GiniConfig, regularized_loss
from ginigcn.model import ModelConfig, PackedDataset, init_model
from ginigcn.molecules import MolecularGraph, parse_smiles_subset
from ginigcn.toydata import planted_value
from ginigcn.training import multitask_loss, target_matrix, standardize_targets


def gradient_check_batch():
    """The (graphs, config) pair of the full-loss finite-difference checks.

    Three molecules of at most 5 heavy atoms whose planted targets vary by
    construction (sizes 3/5/5, oxygen counts 1/2/0), so standardize_targets
    can z-score both. A toydata draw of this size often repeats one size,
    since toydata puts most of its mass at the heavy-atom cap.
    """
    targets = ["size", "oxygen_count"]
    graphs = [parse_smiles_subset(s) for s in ("CCO", "CC(O)CO", "CC(C)CC")]
    for g in graphs:
        g.targets = {name: planted_value(g, name) for name in targets}
    config = ModelConfig(targets=targets, conv_hidden=4, num_conv_layers=2, seed=0)
    return graphs, config


def relabel_graph(graph, perm):
    """Relabel atoms by a permutation (perm[k] = old index at new slot k)."""
    perm = np.asarray(perm)
    inv = np.argsort(perm)
    return MolecularGraph(
        id=graph.id + "-perm",
        atoms=[graph.atoms[i] for i in perm],
        bonds=[(int(inv[i]), int(inv[j]), order) for i, j, order in graph.bonds],
        targets=dict(graph.targets),
        fukui=None if graph.fukui is None else [graph.fukui[i] for i in perm],
    )


class PackedLoss:
    """The explainable model's regularized training loss as a function of one
    flat parameter vector, suitable for ``ad.grad_check``.

    Rebuilds the forward pass with parameter slices gathered from the vector,
    so gradient flow covers every layer: convolutions, batch norm (train
    mode), fingerprint aggregation, output layer, Gini blocks, and L / g^m.
    """

    def __init__(self, config: ModelConfig, graphs, gini_cfg: GiniConfig):
        assert config.variant == "explainable"
        self.config = config
        self.gini_cfg = gini_cfg
        template = init_model(config)
        self.spans = []
        offset = 0
        for name, p in template.named_parameters():
            size = p.value.size
            self.spans.append((name, offset, offset + size, p.value.shape))
            offset += size
        self.size = offset
        self.x, self.neighbors, self.atoms = PackedDataset(graphs).take(range(len(graphs)))
        y, self.mask = target_matrix(graphs, config.targets)
        _, self.z = standardize_targets(y, self.mask, config.targets)
        self.diagnostics = {}

    def pack(self, model) -> np.ndarray:
        theta = np.empty(self.size)
        for (name, a, b, shape), (_, p) in zip(self.spans, model.named_parameters()):
            theta[a:b] = p.value.ravel()
        return theta

    def __call__(self, theta: ad.Node) -> ad.Node:
        cfg = self.config
        pieces = {}
        for name, a, b, shape in self.spans:
            node = ad.gather(theta, np.arange(a, b))
            pieces[name] = ad.reshape(node, shape) if len(shape) == 2 else node

        bn_margin = np.inf
        max_gap_margin = np.inf
        h = ad.constant(self.x)
        for ell in range(cfg.num_conv_layers):
            agg = ad.neighbor_sum(h, self.neighbors)
            pre = ad.linear(agg, pieces[f"conv{ell}.weight"], pieces[f"conv{ell}.bias"])
            state = ad.BatchNormState(cfg.conv_hidden)
            state.gamma = pieces[f"conv{ell}.gamma"]
            state.beta = pieces[f"conv{ell}.beta"]
            bn_out = ad.batch_norm(pre, state, "train")
            bn_margin = min(bn_margin, float(np.abs(bn_out.value).min()))
            h = ad.relu(bn_out)
        for row in self.atoms:
            seg = row[row < len(self.x)]
            if len(seg) > 1:
                block = h.value[seg]
                # exact ties (symmetric atoms, dead relus) move in lockstep
                # under a parameter step; the kink hazard is a strictly
                # smaller positive runner-up within finite-difference reach
                for c in range(block.shape[1]):
                    col = block[:, c]
                    v1 = col.max()
                    below = col[col < v1]
                    if below.size and below.max() > 0.0:
                        max_gap_margin = min(max_gap_margin, float(v1 - below.max()))
        fp_mean = ad.tanh(ad.segment_aggregate(h, self.atoms, "mean"))
        fp_max = ad.tanh(ad.segment_aggregate(h, self.atoms, "max"))
        fp = ad.concat_cols(fp_mean, fp_max)
        out = ad.linear(fp, pieces["output.weight"], pieces["output.bias"])
        raw = multitask_loss(out, self.z, self.mask)
        loss, _ = regularized_loss(raw, pieces["output.weight"], cfg.conv_hidden, self.gini_cfg)

        w = pieces["output.weight"].value
        abs_margin = float(np.abs(w).min())
        gap_margin = np.inf
        for block in (w[:cfg.conv_hidden], w[cfg.conv_hidden:]):
            mags = np.sort(np.abs(block).ravel())
            if mags.size > 1:
                gap_margin = min(gap_margin, float(np.diff(mags).min()))
        self.diagnostics = {
            "relu_margin": bn_margin,
            "segment_max_gap": max_gap_margin,
            "abs_weight_margin": abs_margin,
            "abs_weight_gap": gap_margin,
        }
        return loss

    def kink_free(self, theta: np.ndarray, margin: float = 1e-3) -> bool:
        """True when every relu/abs/max/sort kink is at least margin away."""
        self(ad.constant(theta))
        d = self.diagnostics
        return all(v > margin for v in d.values())


def fd_max_relative_error(f, x0, step=1e-5, floor=1e-8):
    """Max elementwise relative error of analytic vs central differences,
    skipping components the finite-difference oracle cannot resolve.

    A direction with a mathematically zero derivative (a convolution bias is
    cancelled exactly by the batch-mean subtraction) evaluates to pure
    float64 roundoff in the difference quotient, about eps * |f| / (2 step).
    Components where both the analytic and numeric values sit below that
    resolution are zero as far as the oracle can measure and are excluded;
    every resolvable component is held to the usual relative comparison.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    leaf = ad.parameter(x0.copy())
    out = f(leaf)
    ad.backward(out)
    analytic = leaf.grad.copy()
    noise = 64.0 * np.finfo(np.float64).eps * max(abs(float(out.value)), 1.0) / (2.0 * step)

    worst = 0.0
    for idx in np.ndindex(x0.shape):
        xp = x0.copy()
        xp[idx] += step
        xm = x0.copy()
        xm[idx] -= step
        numeric = (float(f(ad.constant(xp)).value) - float(f(ad.constant(xm)).value)) / (2.0 * step)
        a = analytic[idx]
        if abs(a) <= noise and abs(numeric) <= noise:
            continue
        rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
        worst = max(worst, rel)
    return worst


def sample_kink_free_theta(config, graphs, gini_cfg, seed, margin=1e-3, max_tries=60):
    """A (PackedLoss, theta) pair at a random kink-free point.

    Resamples the parameter draw until the finite-difference step cannot
    cross a relu/abs/max kink or reorder the Gini sort.
    """
    loss = PackedLoss(config, graphs, gini_cfg)
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        model_seed = int(rng.integers(2 ** 31))
        model = init_model(
            ModelConfig(**{**config.to_dict(), "seed": model_seed})
        )
        # random biases/gamma/beta too, so those gradients are exercised at
        # generic points rather than at the symmetric init
        for name, p in model.named_parameters():
            if name.endswith((".bias", ".beta")):
                p.value = rng.normal(scale=0.1, size=p.value.shape)
            elif name.endswith(".gamma"):
                p.value = 1.0 + rng.normal(scale=0.1, size=p.value.shape)
        theta = loss.pack(model)
        if loss.kink_free(theta, margin):
            return loss, theta
    raise RuntimeError("could not sample a kink-free parameter point")
