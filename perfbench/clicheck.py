"""Cross-check: the psdrec CLI prints what the library-driven protocol finds.

Runs `psdrec evaluate`, `topn` or `hierarchy` through `psdrec.cli.main` on
the generated files of one workload and compares the printed MAE, recall or
edge list with one untimed pass of the benchmark's own protocol. Without it
nothing shows that the benchmark measures what users run.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import psdrec.cli

import protocols

TRAIN = {"cv-100k": protocols.CV_TRAIN, "topn-1m": protocols.TOPN_TRAIN}


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = psdrec.cli.main(argv)
    return code, out.getvalue()


def _field(text, pattern):
    m = re.search(pattern, text)
    return m.group(1) if m else None


def main(workload, inputs, work_dir):
    ops = protocols.Ops()
    lib = workload.run(inputs, ops, work_dir)
    rows = []
    data = str(inputs.ratings)
    if workload.name in TRAIN:
        cfg = work_dir / "train.cfg"
        lines = [f"{k} = {v}" for k, v in TRAIN[workload.name].items()] + [f"max_iter = {protocols.FULL.sweeps}"]
        cfg.write_text("\n".join(lines) + "\n", encoding="ascii")
    if workload.name == "cv-100k":
        code, text = _cli(["evaluate", "--data", data, "--format", "ml100k", "--config", str(cfg),
                           "--folds", str(protocols.FULL.folds), "--seed", "0"])
        rows.append(("mae", _field(text, r"mae mean=(\S+)"), f"{lib['mae']:.6g}", code))
        rows.append(("rmse", _field(text, r"rmse mean=(\S+)"), f"{lib['rmse']:.6g}", code))
    elif workload.name == "topn-1m":
        code, text = _cli(["topn", "--data", data, "--format", "ml1m", "--config", str(cfg),
                           "--n", str(protocols.RECALL_N), "--fraction", str(protocols.FULL.holdout),
                           "--seed", "0"])
        rows.append(("recall_at_20", _field(text, r"value=(\S+)"), f"{lib['recall_at_20']:.6g}", code))
    else:
        for method in ("simple", "sdp"):
            code, text = _cli(["hierarchy", "--model-in", str(inputs.model), "--data", data,
                               "--format", "ml1m", "--genres", str(inputs.movies),
                               "--epsilon", str(protocols.FULL.epsilon), "--method", method, "--seed", "0"])
            edges = lib[f"edges_{method}"]
            rows.append((f"edges_{method}", _field(text, r"edges=(\d+)"), str(len(edges)), code))
            printed = sorted(tuple(line.split(" -> ")) for line in text.splitlines() if " -> " in line)
            rows.append((f"edge_list_{method}", printed == sorted(edges), True, code))
    ok = ops.failed == 0 and all(cli == want and code == 0 for _, cli, want, code in rows)
    for name, cli, want, code in rows:
        print(f"  {name:<18} cli={cli} library={want} exit={code}")
    print(json.dumps({"cli_check": workload.name, "ok": ok, "failed_ops": ops.failed}))
    return 0 if ok else 1
