"""Command-line entry point.

Subcommands: prepare, synth, train, evaluate, predict, gradcheck, compare.
Exit codes: 0 success, 2 input error, 3 divergence, 4 vocabulary error,
5 gradcheck failure. All file outputs are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ehr_data, evaluation, synth
from .cells import CELL_KINDS
from .checkpoint import atomic_write_text, load_checkpoint, save_checkpoint
from .ehr_data import CodeVocabulary, VocabularyError
from .gradcheck import full_network_gradcheck
from .numerics import SeededRng

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_VOCAB = 4
EXIT_GRADCHECK = 5

QUIET = False


def log(msg):
    if not QUIET:
        print(msg, file=sys.stderr)


def _data_dir():
    return os.environ.get("DXTRAJ_DATA_DIR", ".")


def _resolve(path):
    if path is None or os.path.isabs(path) or os.path.exists(path):
        return path
    candidate = os.path.join(_data_dir(), path)
    return candidate if os.path.exists(candidate) else path


def cmd_prepare(args) -> int:
    try:
        ccs = ehr_data.load_ccs_map(_resolve(args.ccs))
        raw = ehr_data.load_patients(_resolve(args.input))
    except (OSError, ValueError) as exc:
        log(f"error: {exc}")
        return EXIT_INPUT
    report = ehr_data.FilterReport()
    mapped = [ehr_data.map_icd_to_ccs(p, ccs, report) for p in raw]
    cohort, filt = ehr_data.filter_cohort(mapped)
    filt.unknown_icd_codes = report.unknown_icd_codes
    ehr_data.save_patients(cohort, args.output)
    if args.report:
        atomic_write_text(args.report, json.dumps(filt.to_dict(), indent=2) + "\n")
    log(f"prepared {len(cohort)} patients "
        f"({filt.patients_too_few_admissions} removed)")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(
        n_patients=args.patients, vocab_size=args.vocab_size,
        n_states=args.states, noise_rate=args.noise_rate, seed=args.seed)
    cohort = synth.generate_cohort(spec)
    # emit the consumable JSONL format: integer codes as strings
    as_strings = [
        ehr_data.PatientRecord(p.patient_id, [
            ehr_data.Admission(a.timestamp, {str(c) for c in a.codes},
                               a.adm_type, a.duration)
            for a in p.admissions
        ])
        for p in cohort
    ]
    ehr_data.save_patients(as_strings, args.output)
    if args.ccs_out:
        ccs = synth.identity_ccs_map(spec)
        lines = ["icd9,ccs_label,description"]
        for icd in sorted(ccs.mapping):
            lines.append(f"{icd},{ccs.mapping[icd]},{ccs.labels[icd]}")
        atomic_write_text(args.ccs_out, "\n".join(lines) + "\n")
    log(f"generated {len(cohort)} synthetic patients")
    return EXIT_OK


def _load_config(args):
    from .training import TrainConfig

    values = {}
    if args.config:
        with open(_resolve(args.config)) as fh:
            values.update(json.load(fh))
    for flag in ("seed", "max_epochs", "hidden_size", "cell_kind",
                 "batch_size", "patience_epochs"):
        v = getattr(args, flag, None)
        if v is not None:
            values[flag] = v
    return TrainConfig.from_dict(values)


def cmd_train(args) -> int:
    from .training import TrainingDivergedError, train

    try:
        cohort = ehr_data.load_patients(_resolve(args.cohort))
        config = _load_config(args)
    except (OSError, ValueError, TypeError) as exc:
        log(f"error: {exc}")
        return EXIT_INPUT
    try:
        model, report = train(cohort, config)
    except TrainingDivergedError as exc:
        log(f"training diverged: {exc}")
        return EXIT_DIVERGED
    except ValueError as exc:
        log(f"error: {exc}")
        return EXIT_INPUT
    save_checkpoint(model, args.model)
    if args.report:
        atomic_write_text(args.report,
                          json.dumps(report.to_dict(), indent=2) + "\n")
    log(f"trained {report.iterations} epochs "
        f"(best {report.best_epoch}), recall {report.recall}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    try:
        model = load_checkpoint(_resolve(args.model))
        patients = ehr_data.load_patients(_resolve(args.cohort))
    except (OSError, ValueError) as exc:
        log(f"error: {exc}")
        return EXIT_INPUT
    vocab = CodeVocabulary(model.vocab_labels)
    try:
        results = evaluation.evaluate_model(model, patients, vocab,
                                            ks=tuple(args.k))
    except VocabularyError as exc:
        log(f"error: {exc}")
        return EXIT_VOCAB
    out = {str(k): r.mean for k, r in results.items()}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_predict(args) -> int:
    from .network import predict_topk

    try:
        model = load_checkpoint(_resolve(args.model))
        patients = ehr_data.load_patients(_resolve(args.history))
    except (OSError, ValueError) as exc:
        log(f"error: {exc}")
        return EXIT_INPUT
    if not patients:
        log("error: empty history file")
        return EXIT_INPUT
    vocab = CodeVocabulary(model.vocab_labels)
    descriptions = {}
    if args.ccs:
        try:
            descriptions = ehr_data.load_ccs_map(_resolve(args.ccs)).labels
        except (OSError, ValueError) as exc:
            log(f"error: {exc}")
            return EXIT_INPUT
    try:
        ranked = predict_topk(model, patients[0], vocab, args.k)
    except VocabularyError as exc:
        log(f"error: {exc}")
        return EXIT_VOCAB
    except ValueError as exc:
        log(f"error: {exc}")
        return EXIT_INPUT
    out = [
        {
            "code": vocab.labels[i],
            "description": descriptions.get(vocab.labels[i], str(vocab.labels[i])),
            "probability": p,
        }
        for i, p in ranked
    ]
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    n_failing = 0
    worst = (0.0, "")
    for kind in CELL_KINDS:
        errors = full_network_gradcheck(
            kind, n_codes=args.codes, hidden=args.hidden,
            n_patients=args.patients, n_steps=args.steps, seed=args.seed)
        name = max(errors, key=errors.get)
        failing = [n for n, err in errors.items() if err > args.tolerance]
        log(f"{kind:12s} max relative error {errors[name]:.3e} ({name})"
            + (f"; failing: {', '.join(failing)}" if failing else ""))
        worst = max(worst, (errors[name], f"{kind} {name}"))
        n_failing += len(failing)
    print(f"max relative error: {worst[0]:.3e} ({worst[1]})")
    if n_failing:
        log(f"gradcheck FAILED: {n_failing} parameter(s) above "
            f"{args.tolerance:g}")
        return EXIT_GRADCHECK
    log("gradcheck passed")
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        cohort = ehr_data.load_patients(_resolve(args.cohort))
        with open(_resolve(args.grid)) as fh:
            grid_spec = json.load(fh)
    except (OSError, ValueError) as exc:
        log(f"error: {exc}")
        return EXIT_INPUT
    seeds = [args.seed + i for i in range(args.seeds)]
    rows = evaluation.run_comparison(cohort, grid_spec, seeds)
    atomic_write_text(args.output + ".csv", evaluation.grid_to_csv(rows))
    atomic_write_text(args.output + ".json",
                      json.dumps(evaluation.grid_to_json(rows), indent=2) + "\n")
    ok = sum(1 for r in rows if not r.failed)
    log(f"{ok}/{len(rows)} grid cells succeeded")
    return EXIT_OK if ok >= 1 else EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dxtraj",
        description="Next-admission diagnosis prediction toolkit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="map ICD-9 to CCS and filter a cohort")
    p.add_argument("--input", required=True)
    p.add_argument("--ccs", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--patients", type=int, default=1000)
    p.add_argument("--vocab-size", type=int, default=271)
    p.add_argument("--states", type=int, default=10)
    p.add_argument("--noise-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--ccs-out", help="write a matching identity CCS map")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model on a prepared cohort")
    p.add_argument("--cohort", required=True)
    p.add_argument("--config", help="JSON file of TrainConfig fields")
    p.add_argument("--model", required=True)
    p.add_argument("--report")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--hidden-size", type=int, dest="hidden_size")
    p.add_argument("--cell-kind", choices=CELL_KINDS, dest="cell_kind")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--patience", type=int, dest="patience_epochs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="Recall@k of a checkpoint on a cohort")
    p.add_argument("--model", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--k", type=int, nargs="+", default=[10, 20, 30])
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("predict", help="rank next-admission codes for a history")
    p.add_argument("--model", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--k", type=int, default=30)
    p.add_argument("--ccs", help="CCS map supplying human-readable descriptions")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients against finite differences")
    p.add_argument("--codes", type=int, default=5)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--patients", type=int, default=2)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("compare", help="run a train/evaluate comparison grid")
    p.add_argument("--cohort", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--output", required=True,
                   help="output path stem (.csv and .json are appended)")
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    global QUIET
    args = build_parser().parse_args(argv)
    QUIET = args.quiet
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
