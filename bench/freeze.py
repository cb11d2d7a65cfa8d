"""Regenerate bench/expected.json, the frozen answers every op is checked against.

    python3 bench/freeze.py

Run it from a checkout of the commit whose answers are to be frozen; the
file records that commit.  A later change that keeps every verdict and
every CLI output byte-identical passes the benchmark's checks unchanged,
so the file is regenerated only when the benchmark's inputs change.
"""

import json
import os
import shlex
import subprocess
import sys

from common import DEPTH_LIMIT, EXPECTED, ROOT, SRC, child_env, cli_command, source_identity
from workloads import (
    CLI_VARIANTS,
    DENSE_POOL,
    DENSE_SIZES,
    GICAR_LEVELS,
    K0_DEPTHS,
    TREE_DEPTH,
    cli_ops,
    dense_matrix,
    k0_chains,
    write_variants,
)


def reduce_tree():
    from brattice import corpus, pathspace, reduction
    from brattice.errors import BratticeError

    gicar = corpus.get("gicar").diagram()
    dense = {}
    for c in DENSE_SIZES:
        pool = dense[str(c)] = {}
        for index in range(DENSE_POOL):
            rows = dense_matrix(c, index)
            try:
                parents = reduction.minimal_reduce(rows).parents
            except BratticeError:
                continue  # rank deficient: not in the pool
            if reduction.reduction_is_valid(rows, parents):
                pool[str(index)] = list(parents)
    return {
        "gicar_parents": {
            str(level): list(reduction.minimal_reduce(gicar.matrix(level - 1)).parents)
            for level in GICAR_LEVELS
        },
        "tree_dump": pathspace.format_tree_dump(pathspace.build_minimal_diagram(gicar, "theorem"), TREE_DEPTH),
        "dense": dense,
    }


def k0_query():
    gicar, prop = k0_chains(max(K0_DEPTHS))
    return {"gicar_dets": list(gicar[0].dets), "propersub_dets": list(prop[0].dets)}


def cli_verbs():
    write_variants()
    texts = dict.fromkeys(text for v in range(CLI_VARIANTS) for _, text in cli_ops(v))
    out = {}
    for text in texts:
        proc = subprocess.run(
            cli_command(shlex.split(text)), cwd=ROOT, env=child_env(), capture_output=True, text=True
        )
        out[text] = {"rc": proc.returncode, "stdout": proc.stdout}
        print(f"rc={proc.returncode} {text}", file=sys.stderr)
    return out


def main():
    os.environ["BRATTICE_DEPTH_LIMIT"] = DEPTH_LIMIT
    sys.path.insert(0, str(SRC))
    expected = {
        "source": source_identity(),
        "reduce-tree": reduce_tree(),
        "k0-query": k0_query(),
        "cli-verbs": cli_verbs(),
    }
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
