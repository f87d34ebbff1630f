"""Command-line entry point wiring datasets, configs, training, and reports.

Commands: ``train``, ``crossval``, ``explain``, ``gini-report``,
``fukui-compare``, ``selftest``. Runs are driven by a single JSON config
document (re-runnable artifact) rather than many flags; ``--seed`` overrides
both the model and training seeds from the config, ``--out`` overrides the
output directory.

Exit codes: 0 success, 1 usage or validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .attribution import (
    _chunked_atom_maps,
    atom_maps,
    concentration_count,
    fukui_compare,
    rank_correlation,
    top_representations,
)
from .gini import GiniConfig, gini, layer_gini_blocks, regularized_loss
from .model import (
    ModelConfig,
    fingerprint,
    init_model,
    load_checkpoint,
    model_from_document,
    checkpoint_document,
    save_checkpoint,
)
from .molecules import brief_repr, load_dataset, parse_graph_file, format_graph_file
from .toydata import ToySpec, generate_graphs
from .training import TrainConfig, TrainingDivergence, cross_validate, multitask_loss, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

FORMAT_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for runtime
    # failures, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object")
    return dict(value)


def _path(value, what: str) -> Path:
    if not isinstance(value, (str, Path)):
        raise TypeError(f"{what} must be a path string, got {brief_repr(value)}")
    return Path(value)


def _run_config(path: Path, seed_override, out_override):
    """The graphs, model and train configs and output directory of a run config.

    The output directory is created here, so an unusable one fails before training.
    """
    try:
        doc = _object(json.loads(path.read_text(encoding="utf-8")), "the config document")
        dataset_path = _path(doc["dataset"], "'dataset'")
        model_doc = _object(doc["model"], "'model'")
        train_doc = _object(doc.get("train", {}), "'train'")
        out_dir = _path(out_override or doc.get("output_dir", "."), "'output_dir'")
        if seed_override is not None:
            model_doc["seed"] = seed_override
            train_doc["seed"] = seed_override
        gini_doc = _object(train_doc.pop("gini", {}), "'gini'")
        model_cfg = ModelConfig(**model_doc)
        train_cfg = TrainConfig(gini=GiniConfig(**gini_doc), **train_doc)
    except KeyError as e:
        raise ValueError(f"invalid config: missing field {e.args[0]!r}") from None
    except (TypeError, ValueError, RecursionError) as e:  # RecursionError: nested too deeply
        raise ValueError(f"invalid config: {e}") from None
    graphs = load_dataset(dataset_path)
    dataset_targets = set()
    for g in graphs:
        dataset_targets.update(g.targets)
    missing = [t for t in model_cfg.targets if t not in dataset_targets]
    if missing:
        raise ValueError(f"config targets not present in dataset: {', '.join(missing)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    return graphs, model_cfg, train_cfg, out_dir


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, doc: dict):
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def cmd_train(args) -> int:
    graphs, model_cfg, train_cfg, out_dir = _run_config(args.config, args.seed, args.out)
    model, stats, history = train(init_model(model_cfg), graphs, train_cfg)
    save_checkpoint(model, out_dir / "checkpoint.json")
    _write_json(out_dir / "target_stats.json", stats.to_dict())
    _write_text(out_dir / "history.tsv", history.as_table())
    print(f"wrote {out_dir / 'checkpoint.json'}")
    print(f"wrote {out_dir / 'target_stats.json'}")
    print(f"wrote {out_dir / 'history.tsv'}")
    return EXIT_OK


def cmd_crossval(args) -> int:
    graphs, model_cfg, train_cfg, out_dir = _run_config(args.config, args.seed, args.out)
    mean_mae, per_fold = cross_validate(graphs, model_cfg, train_cfg, k=args.folds)
    header = ["fold"] + [f"mae_{t}" for t in model_cfg.targets]
    lines = ["\t".join(header)]
    for f, fold in enumerate(per_fold):
        lines.append("\t".join([str(f + 1)] + [repr(fold[t]) for t in model_cfg.targets]))
    lines.append("\t".join(["mean"] + [repr(mean_mae[t]) for t in model_cfg.targets]))
    table = "\n".join(lines) + "\n"
    _write_text(out_dir / "crossval.tsv", table)
    print(table, end="")
    return EXIT_OK


def _attribution_document(amap, graph, top: list[int]) -> dict:
    doc = {"format_version": FORMAT_VERSION, **asdict(amap), "top_representations": top}
    if graph.fukui is not None and graph.num_atoms >= 2:
        spearman = {}
        for polarity, col in (("f_minus", 0), ("f_plus", 1)):
            fk = [pair[col] for pair in graph.fukui]
            try:
                spearman[polarity] = rank_correlation(amap.atom_scores, fk)
            except ValueError:
                spearman[polarity] = None
        doc["fukui_spearman"] = spearman
    return doc


def cmd_explain(args) -> int:
    model = load_checkpoint(args.checkpoint)
    top = top_representations(model, args.target, 0.9)
    graphs = load_dataset(args.dataset)
    repeated = [i for i, count in Counter(g.id for g in graphs).items() if count > 1]
    if repeated:  # documents and --out file names are keyed by id
        raise ValueError(f"{args.dataset}: repeated molecule id(s): {', '.join(repeated)}")
    by_id = {g.id: g for g in graphs}
    ids = args.ids or list(by_id)
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        raise ValueError(f"unknown molecule id(s): {', '.join(unknown)}")
    repeated = [i for i, count in Counter(ids).items() if count > 1]
    if repeated:
        raise ValueError(f"--ids names molecule id(s) more than once: {', '.join(repeated)}")
    if args.out:  # each document is written to attribution_<id>_<target>.json in --out
        unsafe = [name for name in (*ids, args.target) if "/" in name or os.sep in name]
        if unsafe:
            raise ValueError(f"molecule id or target name has a path separator, so it cannot "
                             f"name a file in --out: {', '.join(map(repr, unsafe))}")
    if not ids:
        return EXIT_OK
    graphs = [by_id[mol_id] for mol_id in ids]
    for graph, (amap,) in zip(graphs, _chunked_atom_maps(model, graphs, [args.target])):
        text = json.dumps(_attribution_document(amap, graph, top), indent=2)
        if args.out:
            _write_text(args.out / f"attribution_{graph.id}_{args.target}.json", text + "\n")
        print(text)
    return EXIT_OK


def cmd_gini_report(args) -> int:
    model = load_checkpoint(args.checkpoint)
    w = model.out_weight.value
    doc = {
        "format_version": FORMAT_VERSION,
        "variant": model.config.variant,
        "gini_whole_layer": gini(w),
        "per_target": {},
    }
    if model.is_explainable:
        doc["g_mean_block"], doc["g_max_block"] = layer_gini_blocks(w, model.config.conv_hidden)
    else:
        doc["g_mean_block"] = None
        doc["g_max_block"] = None
    for j, name in enumerate(model.config.targets):
        col = w[:, j]
        entry = {"gini": gini(col)}
        try:
            entry["weights_holding_90pct_mass"] = concentration_count(col, 0.9)
        except ValueError:
            entry["weights_holding_90pct_mass"] = None
        doc["per_target"][name] = entry
    text = json.dumps(doc, indent=2)
    if args.out:
        _write_text(args.out / "gini_report.json", text + "\n")
    print(text)
    return EXIT_OK


def cmd_fukui_compare(args) -> int:
    model = load_checkpoint(args.checkpoint)
    per_molecule, mean = fukui_compare(model, load_dataset(args.dataset), args.target,
                                       args.polarity)
    lines = ["\t".join(["molecule_id", f"spearman_{args.polarity}"])]
    for mol_id, coef in per_molecule:
        lines.append(f"{mol_id}\t{coef!r}")
    lines.append(f"mean\t{mean!r}")
    table = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out / "fukui_compare.tsv", table)
    print(table, end="")
    return EXIT_OK


def _selftest_checks():
    yield "gini closed form", lambda: (
        abs(gini([1.0, 1.0, 1.0, 1.0])) == 0.0
        and abs(gini([0.0, 0.0, 0.0, 1.0]) - 0.75) < 1e-12
        and abs(gini([1.0, 2.0, 3.0]) - 2.0 / 9.0) < 1e-12
        and abs(gini([-1.0, 2.0]) - gini([1.0, 2.0])) < 1e-15
    )

    def _grad_checks():
        # each op scored by the masked squared error against a fixed target,
        # so the loss node is checked through every op
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3)) + np.where(rng.normal(size=(4, 3)) > 0, 0.5, -0.5)
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        # path 0-1-2 plus a lone atom 3, as one molecule of three and one of one;
        # index 4 (the row count) is padding
        neighbors = [[0, 1, 4], [0, 1, 2], [1, 2, 4], [3, 4, 4]]
        atoms = [[0, 1, 2], [3, 4, 4]]
        ops = [lambda n: n,
               lambda n: ad.linear(n, ad.constant(w), ad.constant(b)),
               lambda n: ad.neighbor_sum(n, neighbors),
               lambda n: fingerprint(n, atoms),
               # one train-mode convolution; its batch statistics move with the input
               lambda n: ad.conv(n, neighbors, ad.constant(w), ad.constant(b),
                                 ad.BatchNormState(2), "train")]

        def error(op):
            shape = op(ad.constant(x)).shape
            target = rng.normal(size=shape)
            mask = np.ones(shape)
            mask[0, -1] = 0.0
            return ad.grad_check(lambda n: multitask_loss(op(n), target, mask), x)

        return all(error(op) < 1e-6 for op in ops)

    yield "primitive gradients", _grad_checks

    def _regularizer_gradient():
        # magnitudes 0.1..1.6 with mixed signs: no tie or zero within the step
        w = 0.1 * np.random.default_rng(5).permutation(np.arange(1, 17) * (-1.0) ** np.arange(16))
        cfg = GiniConfig(m=3.0)
        return ad.grad_check(lambda n: regularized_loss(ad.constant(1.3), n, 4, cfg)[0],
                             w.reshape(8, 2)) < 1e-6

    yield "regularizer gradient", _regularizer_gradient

    def _attribution():
        graphs = generate_graphs(ToySpec(num_molecules=20, seed=11))
        model = init_model(ModelConfig(targets=["size"], conv_hidden=8, num_conv_layers=2, seed=3))
        return all(
            abs(sum(t.value for t in amap.terms) + amap.bias - amap.prediction) < 1e-9
            and abs(sum(amap.atom_scores) - (amap.prediction - amap.bias)) < 1e-9
            for (amap,) in atom_maps(model, graphs, ["size"])
        )

    yield "attribution completeness", _attribution

    def _round_trips():
        graphs = generate_graphs(ToySpec(num_molecules=5, seed=2))
        if parse_graph_file(format_graph_file(graphs)) != graphs:
            return False
        for variant in ("explainable", "reference"):  # every kind of layout entry
            doc = checkpoint_document(init_model(ModelConfig(
                targets=["size"], variant=variant, conv_hidden=4, num_conv_layers=1,
                intermediate_dim=3, seed=0)))
            if checkpoint_document(model_from_document(json.loads(json.dumps(doc)))) != doc:
                return False
        return True

    yield "round trips", _round_trips


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as e:  # a crash is a failure, not a usage error
            ok = False
            print(f"FAIL {name}: {e}")
            failures += 1
            continue
        if ok:
            print(f"ok   {name}")
        else:
            print(f"FAIL {name}")
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def _build_parser() -> _Parser:
    parser = _Parser(prog="ginigcn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False):
        if config:
            p.add_argument("--config", type=Path, required=True, help="run config JSON")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("train", help="train a model from a run config")
    add_common(p, config=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("crossval", help="k-fold cross-validation MAE table")
    add_common(p, config=True)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(fn=cmd_crossval)

    p = sub.add_parser("explain", help="attribution documents for molecules")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--ids", action="append", metavar="ID",
                   help="a molecule id, verbatim; repeat for more (default: all)")
    add_common(p)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("gini-report", help="per-block and per-target sparsity report")
    p.add_argument("--checkpoint", type=Path, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_gini_report)

    p = sub.add_parser("fukui-compare", help="rank-correlate atom scores with Fukui data")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--polarity", choices=["f_minus", "f_plus"], default="f_minus")
    add_common(p)
    p.set_defaults(fn=cmd_fukui_compare)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place an exception becomes an exit code and a line."""
    args = _build_parser().parse_args(argv)
    try:
        # a diverging run is reported once, by train's own finiteness check,
        # not also by numpy's overflow warnings
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ValueError, OSError) as e:  # usage, config, dataset, checkpoint and file errors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDivergence as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as e:  # a model or batch too large to allocate
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
